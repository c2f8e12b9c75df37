"""`python -m dualmc`: the dualmc command line (see dualmc.cli)."""
from dualmc.cli import main

if __name__ == "__main__":
    main()
