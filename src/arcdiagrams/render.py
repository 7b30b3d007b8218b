"""Drawings of a word's path: ASCII art and a minimal SVG."""

from __future__ import annotations

from itertools import accumulate

from . import words
from .errors import DEFAULT_CAP, check_cap


def _layout(word: str, dialect: str) -> tuple[list[int], list[int], list[int], list[int]]:
    """Steps of the path of ``word``, heights from 0, each letter's first
    column, and the text band each step draws in: the band above its lower end.

    Heights and columns run one entry past the steps: the last height is the
    end height and the last column the width, so letter i spans columns
    ``starts[i]`` up to ``starts[i + 1]``.
    """
    groups = words.step_groups(word, dialect)
    steps = [dy for group in groups for dy in group]
    heights = list(accumulate(steps, initial=0))
    starts = list(accumulate(map(len, groups), initial=0))
    bands = [h - (dy == -1) for dy, h in zip(steps, heights)]
    return steps, heights, starts, bands


def render_ascii(word: str, dialect: str, cap: int = DEFAULT_CAP) -> str:
    """Draw the path of ``word`` with ``/``, ``\\`` and ``_`` characters.

    One text column per unit step; vertex indices are printed under the
    first column of each letter's step group.  A grid (a row per band, one of
    labels) past ``cap`` cells raises :class:`CapExceeded` before it is built.
    """
    steps, _, starts, bands = _layout(word, dialect)
    width = len(steps)
    top, bottom = max(bands), min(bands)
    check_cap((top - bottom + 2) * width, cap, "cells to draw")
    rows = [[" "] * width for _ in range(top - bottom + 1)]
    for col, (dy, band) in enumerate(zip(steps, bands)):
        rows[top - band][col] = {1: "/", -1: "\\", 0: "_"}[dy]
    labels = [" "] * width
    for index, col in enumerate(starts[:-1], start=1):
        text = str(index)
        free = labels[col : col + len(text)]
        if len(free) == len(text) and set(free) == {" "}:
            labels[col : col + len(text)] = text
    return "\n".join("".join(row).rstrip() for row in rows + [labels])


def render_svg(word: str, dialect: str) -> str:
    """The same path as a minimal SVG polyline with vertex labels."""
    unit, pad, label_space = 20, 10, 16
    steps, heights, starts, _ = _layout(word, dialect)
    top, bottom = max(heights), min(heights)
    width = pad * 2 + unit * len(steps)
    height = pad * 2 + unit * (top - bottom) + label_space

    def x(col: int) -> int:
        return pad + unit * col

    def y(h: int) -> int:
        return pad + unit * (top - h)

    points = " ".join(f"{x(i)},{y(h)}" for i, h in enumerate(heights))
    labels = [
        f'<text x="{x(col) + unit * (end - col) // 2}" y="{height - 4}" font-size="10" '
        f'text-anchor="middle">{index}</text>'
        for index, (col, end) in enumerate(zip(starts, starts[1:]), start=1)
    ]
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<polyline fill="none" stroke="black" points="{points}"/>'
    )
    return "\n".join([head, *labels, "</svg>"])
