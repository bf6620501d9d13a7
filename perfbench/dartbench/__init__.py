"""End-to-end benchmark of the DART reproduction (see perfbench/README.md)."""
