"""gapcheck: exact-arithmetic verification of finitely checkable prime-gap claims."""

__version__ = "0.2.0"
