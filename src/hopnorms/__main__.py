"""``python -m hopnorms``: the command-line front end (see :mod:`hopnorms.cli`)."""
import sys

from .cli import main

sys.exit(main())
