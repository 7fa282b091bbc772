"""Kept for the offline ``python setup.py develop`` install; pyproject.toml holds the metadata."""

from setuptools import setup

setup()
