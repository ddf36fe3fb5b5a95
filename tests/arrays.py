"""Arrays for tests, written as their rows."""

from namebook.values import Array


def of_rows(rows):
    """The Array whose rows are rows: a non-empty list of equal-length
    non-empty lists."""
    return Array([s for row in rows for s in row], (len(rows), len(rows[0])))


def kind_of(flat):
    """float or bool when every scalar of flat is exactly that type, else
    False: what an Array's kind must be."""
    for t in (float, bool):
        if all(type(s) is t for s in flat):
            return t
    return False
