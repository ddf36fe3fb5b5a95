"""Arrays for tests, written as their rows."""

from namebook.values import Array


def of_rows(rows):
    """The Array whose rows are rows: a non-empty list of equal-length
    non-empty lists."""
    return Array([s for row in rows for s in row], (len(rows), len(rows[0])))
