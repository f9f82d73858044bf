"""Flat key=value configuration files.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored. Used for both scene configs and dataset parameter files, which
``merge_kv`` combines with command-line ``--set`` items and per-key flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


def read_text(path: Path | str, error: type[Exception] = ConfigError) -> str:
    """The text of the UTF-8 file ``path``; other bytes are an ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


@dataclass(frozen=True)
class KVEntry:
    key: str
    value: str
    line: int   # > 0: config file line; < 0: -(i) for the i-th --set item; 0: flag

    @property
    def where(self) -> str:
        """Where the entry came from, for diagnostics."""
        if self.line > 0:
            return f"line {self.line}"
        return f"--set item {-self.line}" if self.line < 0 else f"flag --{self.key}"


def parse_kv(text: str) -> dict[str, KVEntry]:
    """Parse a key=value document, preserving line numbers for diagnostics."""
    entries: dict[str, KVEntry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first seen on line {entries[key].line})"
            )
        entries[key] = KVEntry(key, value, lineno)
    return entries


def merge_kv(
    text: str | None = None,
    sets: Sequence[str] = (),
    flags: Mapping[str, str] | None = None,
) -> dict[str, KVEntry]:
    """Merge a config document < ``--set key=value`` items < per-key flags.

    Later sources override earlier ones key by key; the config document is
    parsed strictly by :func:`parse_kv`, and a ``--set`` item without a key
    and ``=`` is an error.
    """
    entries = parse_kv(text) if text else {}
    for i, item in enumerate(sets, start=1):
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set {item!r}: expected key=value")
        entries[key.strip()] = KVEntry(key.strip(), value.strip(), -i)
    for key, value in (flags or {}).items():
        entries[key] = KVEntry(key, value.strip(), 0)
    return entries


def as_int(entry: KVEntry) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise ConfigError(
            f"{entry.where}: key {entry.key!r} expects an integer, got {entry.value!r}"
        ) from None


def as_float(entry: KVEntry) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise ConfigError(
            f"{entry.where}: key {entry.key!r} expects a number, got {entry.value!r}"
        ) from None


def as_int_list(entry: KVEntry) -> list[int]:
    items = [s for s in entry.value.replace(" ", "").split(",") if s]
    if not items:
        raise ConfigError(f"{entry.where}: key {entry.key!r} expects a comma-separated list")
    try:
        return [int(s) for s in items]
    except ValueError:
        raise ConfigError(
            f"{entry.where}: key {entry.key!r} expects integers, got {entry.value!r}"
        ) from None
