"""``python -m pathcert``: the ``pathcert`` command."""

from .cli import entry_point

entry_point()
