"""Exception types shared across the package.

Everything raised on purpose derives from AtcpipError so callers can
catch protocol failures without swallowing programming errors.
"""


class AtcpipError(Exception):
    """Base class for every error this package raises deliberately."""


class CanonicalizationError(AtcpipError):
    """Value cannot be rendered in the canonical wire form."""


class ParseError(AtcpipError):
    """Input bytes are not a canonical document of the expected shape."""


class InvalidTerms(AtcpipError):
    """License terms break a domain rule, so they cannot be built."""

    def __init__(self, violations):
        self.violations = list(violations)
        self.detail = "; ".join(f"{'.'.join(v.path) or '<terms>'}: {v.reason}" for v in violations)
        super().__init__(f"terms failed validation: {self.detail}")


class UnknownPath(AtcpipError):
    """A negotiation policy names a field outside the terms schema."""


class InvalidResult(AtcpipError):
    """Applying an edit produced terms that cannot be built."""


class MalformedDate(AtcpipError):
    """Date string is neither 'perpetual' nor an ISO calendar date."""


class UnknownJurisdiction(AtcpipError):
    """Jurisdiction code with no profile in the scenario."""


class DuplicateAgent(AtcpipError):
    """Agent id already registered."""


class UnknownAgent(AtcpipError):
    """Agent id never registered with the ledger."""


class UnknownAccount(AtcpipError):
    """Wallet operation names an account that was never opened."""


class InsufficientFunds(AtcpipError):
    """Debit would push a balance below zero."""


class BalanceOverflow(AtcpipError):
    """Credit would push a balance past the 64-bit integer range."""


class OverSubscribed(AtcpipError):
    """Royalty shares on one payment sum past 100 percent."""


class ExpiredTerms(AtcpipError):
    """Token would be minted already expired."""


class UnknownLicense(AtcpipError):
    """license_id does not resolve to a committed agreement token."""


class CyclicLineage(AtcpipError):
    """previous_license_id chain loops back on itself."""


class TamperedLedger(AtcpipError):
    """Hash chain verification failed where an intact ledger is required."""


class MalformedFrame(AtcpipError):
    """Wire frame is truncated, oversized, or not canonical."""


class ProtocolViolation(AtcpipError):
    """Event is illegal in the session's current state."""


class AbortedExchange(AtcpipError):
    """Token/delivery exchange failed; neither side takes effect."""


class UnknownContent(AtcpipError):
    """content_id not present in the provider's catalog."""


class UnknownDispute(AtcpipError):
    """dispute_id does not name a filed claim."""


class InvalidParties(AtcpipError):
    """Dispute parties are not both bound to the referenced session."""


class UnresolvedReference(AtcpipError):
    """Scenario references an agent, content id, or session that is not defined."""
