"""Hypothesis strategies shared across test modules."""

from datetime import date
from decimal import Decimal

from hypothesis import strategies as st

from atcpip.terms import (
    DISPUTE_RESOLUTION_MODES,
    SCOPE_TAGS,
    TRANSFERABILITY_MODES,
    LicenseTerms,
)


def rate4(max_units=5000):
    """Fixed-point rate in [0, max_units/10000]."""
    return st.integers(min_value=0, max_value=max_units).map(
        lambda units: Decimal(units).scaleb(-4)
    )


def tag_subset(pool, max_size=3):
    return st.lists(st.sampled_from(sorted(pool)), max_size=max_size, unique=True).map(tuple)


# Characters the canonical string escapes must get right: the two that
# take a backslash, every control character, DEL, line and paragraph
# separators, non-ASCII and astral code points.
_HARD_CHARACTERS = (
    '"\\' + "".join(map(chr, range(0x20))) + "\x7f\u2028\u2029\u00e9\u4e2d\U0001f600"
)


def free_text(min_size=0, max_size=12):
    """Any text with a UTF-8 form, weighted toward the characters the
    encoder escapes or leaves raw."""
    return st.text(
        alphabet=st.one_of(st.sampled_from(_HARD_CHARACTERS), st.characters(codec="utf-8")),
        min_size=min_size,
        max_size=max_size,
    )


def valid_terms(max_fee=10**9):
    """Terms that always pass validation (rates capped so the sum stays <= 1)."""
    return st.builds(
        LicenseTerms,
        name=st.sampled_from(["license", "data-license", "style-license", "algo-license"]),
        description=st.text(max_size=20),
        scope=tag_subset(SCOPE_TAGS),
        duration=st.sampled_from(["perpetual", "2025-01-01", "2026-06-30", "2030-12-31"]),
        jurisdiction=st.sampled_from(["US", "DE", "JP", "GB", "SG"]),
        governing_law=st.sampled_from(["US", "DE", "JP", "EU"]),
        royalty_rate=rate4(),
        transferability=st.sampled_from(TRANSFERABILITY_MODES),
        revocation_conditions=tag_subset({"breach", "dispute_loss", "non_payment"}),
        dispute_resolution=st.sampled_from(DISPUTE_RESOLUTION_MODES),
        onchain_enforcement=st.booleans(),
        offchain_enforcement=st.booleans(),
        compliance_requirements=tag_subset({"gdpr", "ccpa", "audit_log"}, max_size=2),
        ip_restrictions=tag_subset({"read_only", "no_redistribution", "no_training"}, max_size=2),
        chain_of_ownership=st.booleans(),
        rev_share=rate4(),
        upfront_fee=st.integers(min_value=0, max_value=max_fee),
    )


def any_terms_fields():
    """Keyword arguments for LicenseTerms with well-typed values, in or
    out of the domain: unknown and empty tags, malformed and week dates,
    unknown codes and modes, rates from -0.5 to 1.5 and fees past 64
    bits either way."""
    extra_tags = ["", "resale"]

    def tags(pool):
        return st.lists(st.sampled_from(sorted(pool) + extra_tags), max_size=3)

    return st.fixed_dictionaries(
        {
            "name": st.text(max_size=8),
            "description": st.text(max_size=8),
            "scope": tags(SCOPE_TAGS),
            "duration": st.one_of(
                st.sampled_from(["perpetual", "soon", "", "2025-13-40", "2025-W01-1", "20250101"]),
                st.dates().map(date.isoformat),
                st.text(alphabet="0123456789-W", max_size=11),
            ),
            "jurisdiction": st.sampled_from(["US", "DE", "JP", "ZZ", "us", ""]),
            "governing_law": st.sampled_from(["US", "EU", "ZZ"]),
            "royalty_rate": st.integers(-5000, 15000).map(lambda units: Decimal(units).scaleb(-4)),
            "rev_share": st.integers(-5000, 15000).map(lambda units: Decimal(units).scaleb(-4)),
            "transferability": st.sampled_from([*TRANSFERABILITY_MODES, "maybe"]),
            "dispute_resolution": st.sampled_from([*DISPUTE_RESOLUTION_MODES, "shouting"]),
            "revocation_conditions": tags({"breach", "dispute_loss"}),
            "compliance_requirements": tags({"gdpr", "ccpa"}),
            "ip_restrictions": tags({"read_only", "no_training"}),
            "onchain_enforcement": st.booleans(),
            "offchain_enforcement": st.booleans(),
            "chain_of_ownership": st.booleans(),
            "upfront_fee": st.one_of(
                st.integers(-10, 10**9),
                st.integers(2**63 - 3, 2**63 + 3),
                st.integers(-(2**70), 2**70),
            ),
        }
    )
