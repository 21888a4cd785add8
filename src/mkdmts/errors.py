"""Exception types shared across the package."""


class MkdError(Exception):
    """Base class for package errors; the CLI prints ``label: message`` and exits with ``exit_code``."""

    label = "error"
    exit_code = 1


class UsageError(MkdError):
    """Bad command-line usage or configuration."""

    label = "usage error"
    exit_code = 1


class DataError(MkdError):
    """Invalid or inconsistent input data (files, manifests, hashes)."""

    label = "data error"
    exit_code = 2


class NumericalError(MkdError):
    """A numerical routine failed (eigensolver, non-finite intermediate)."""

    label = "numerical error"
    exit_code = 3
