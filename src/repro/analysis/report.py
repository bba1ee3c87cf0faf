"""Plain-text table formatting for the example scripts and CLI reports."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a list of rows as an aligned plain-text table.

    Numbers are formatted compactly (floats to three significant places);
    every other value is rendered with ``str``.
    """

    def cell(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    rendered_rows = [[cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, text in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(text))
            else:
                widths.append(len(text))

    def line(parts: Sequence[str]) -> str:
        padded = [
            part.ljust(widths[index]) for index, part in enumerate(parts)
        ]
        return "  ".join(padded).rstrip()

    output = []
    if title:
        output.append(title)
        output.append("=" * len(title))
    output.append(line(list(headers)))
    output.append(line(["-" * width for width in widths]))
    for row in rendered_rows:
        output.append(line(row))
    return "\n".join(output)
