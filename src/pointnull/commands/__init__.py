"""Subcommand handlers, one module each; the comment on cli.__getattr__ says how."""
