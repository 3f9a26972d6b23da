"""End-to-end benchmark of the sweep path; entry point ``run.py``."""
