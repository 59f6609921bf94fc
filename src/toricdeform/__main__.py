"""``python -m toricdeform``: the command-line workbench."""
import sys

from .workbench import main

sys.exit(main())
