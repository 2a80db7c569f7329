"""One formatter for every block of text rows the package writes."""


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
