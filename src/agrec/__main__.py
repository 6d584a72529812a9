"""`python -m agrec` and the `agrec` script: run agrec.cli as a program, so
that each command imports only the layers it runs."""

import runpy


def main() -> None:
    runpy.run_module("agrec.cli", run_name="__main__")


if __name__ == "__main__":
    main()
