"""Exception types shared across the package."""


class SplineCfrError(Exception):
    """Base class for errors raised by this package."""


class DataError(SplineCfrError):
    """Bad user-supplied input: files, config values, CLI arguments.

    The command-line front end maps this to exit code 2.
    """


class ModelFormatError(DataError):
    """A model document failed to parse or violated the schema."""


class TrainingRmseWarning(RuntimeWarning):
    """A fitted depth raised the training RMSE above the depth before it."""
