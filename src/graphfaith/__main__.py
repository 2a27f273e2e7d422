"""`python -m graphfaith`: the `graphfaith` command, also without installing."""

from .cli import main

if __name__ == "__main__":
    main()
