"""Subcommand handlers, one module each; the comment on cli._load says how."""
