"""`python -m ilpsim` runs the `ilpsim` command."""

from .cli import main

if __name__ == "__main__":
    main()
