"""Process entry point: ``python -m circuit_geometry`` and the installed ``cgeo``."""

import gc

from .cli import main


def run() -> None:
    """Run ``cgeo``; the collection at exit skips the heap the command loaded."""
    try:
        main(prog_name="cgeo")
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
