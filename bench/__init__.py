"""The repository's benchmark (see bench/README.md); not part of the package under test."""
