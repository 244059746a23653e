"""Synthetic data, CSV exchange, the staged experiment pipeline and the CLI."""
