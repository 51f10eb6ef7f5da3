"""`python -m nilorb`: the same command line as the `nilorb` script."""

from .cli import main

raise SystemExit(main())
