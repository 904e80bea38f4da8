"""Process entry point: ``python -m circuit_geometry`` and the installed ``cgeo``."""

import gc

from .cli import main


def run() -> None:
    """Run ``cgeo``; no collection, the one at exit included, walks the import-time heap."""
    gc.freeze()
    main(prog_name="cgeo")


if __name__ == "__main__":
    run()
