"""Line-oriented machine-readable reports.

Every report starts with ``report-version = 1``; all further lines are
``key = value`` (snake_case keys) or verbatim payload lines (the character
table grammar).  Rendering is deterministic: values are formatted by type
with no locale, hashing, or timestamp influence, so identical inputs give
byte-identical reports.
"""

from __future__ import annotations

__all__ = ["Report", "format_value"]


def format_value(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{k}: {format_value(v)}" for k, v in sorted(value.items())
        )
        return "{" + inner + "}"
    return str(value)


class Report:
    """An ordered key = value document with a fixed version header."""

    def __init__(self):
        self._lines: list[str] = ["report-version = 1"]

    def add(self, key: str, value) -> None:
        self._lines.append(f"{key} = {format_value(value)}")

    def raw(self, line: str) -> None:
        self._lines.append(line)

    def blank(self) -> None:
        self._lines.append("")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"
