"""One formatter for every block of text rows the package writes."""

import numpy as np


def block(template: str, columns: list[list]) -> str:
    """Format ``template`` with one ``%`` over ``columns`` interleaved.

    The values tuple holds item 0 of every column in column order, then
    item 1, and so on.  ``template`` holds every row's fields: a row
    template repeated once per row, or rows with their constant cells
    baked in (escape a ``%`` in a baked cell as ``%%``).
    """
    values = [None] * sum(map(len, columns))
    for k, column in enumerate(columns):
        values[k::len(columns)] = column
    return template % tuple(values)


def count_column(counts) -> tuple[list, str]:
    """A column of counts and its format, so that each reads back exactly.

    ``%d`` over ints when every count is whole, not negative and below
    2**53, where a float holds every integer; else ``%.9g`` over floats.
    """
    counts = np.asarray(counts, dtype=float)
    if np.all(~np.signbit(counts) & (counts < 2.0 ** 53) & (counts == np.trunc(counts))):
        return counts.astype(np.int64).tolist(), "%d"
    return counts.tolist(), "%.9g"
