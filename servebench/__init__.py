"""Serving benchmark for ``repro serve``; see ``run.py``."""
