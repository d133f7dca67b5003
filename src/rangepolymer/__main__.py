"""``python -m rangepolymer``: the command-line front end."""

from .cli import entrypoint

entrypoint()
