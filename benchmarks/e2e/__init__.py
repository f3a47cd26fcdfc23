"""End-to-end benchmark of the MilBack reproduction (see README.md)."""
