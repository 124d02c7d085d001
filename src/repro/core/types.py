"""Key model: the hierarchical data space.

"Though original key-value is a flatten database, we can add extra
information in the 'key' part to represent hierarchical data space"
(§II.A.1) — Sedna extends the key implicitly so the namespace is

    dataset / table / key

and triggers can monitor a single pair, a whole Table, or a whole
Dataset (§IV.C).  :class:`FullKey` is the canonical encoded form used
everywhere in the core and the trigger runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["FullKey", "DEFAULT_DATASET", "DEFAULT_TABLE", "encode_key",
           "encode_keys"]

DEFAULT_DATASET = "default"
DEFAULT_TABLE = "default"

_SEP = "\x1f"  # unit separator: cannot appear in user components


def _check(part: str, name: str) -> None:
    """The one rule for a key component."""
    if _SEP in part:
        raise ValueError(f"{name} may not contain the separator byte")
    if not part:
        raise ValueError(f"{name} must be non-empty")


def encode_key(key: str, table: str = DEFAULT_TABLE,
               dataset: str = DEFAULT_DATASET) -> str:
    """``FullKey(dataset, table, key).encoded()``, with the same checks
    and errors, without building the :class:`FullKey`."""
    _check(dataset, "dataset")
    _check(table, "table")
    _check(key, "key")
    return f"{dataset}{_SEP}{table}{_SEP}{key}"


def encode_keys(keys: Iterable[Any], table: str = DEFAULT_TABLE,
                dataset: str = DEFAULT_DATASET) -> dict[str, Any]:
    """``{encode_key(k, table, dataset): k}``, first occurrence order;
    the table and dataset are checked once, at the first key."""
    out: dict[str, Any] = {}
    prefix = None
    for key in keys:
        if prefix is None:
            _check(dataset, "dataset")
            _check(table, "table")
            prefix = f"{dataset}{_SEP}{table}{_SEP}"
        if not key or _SEP in key:
            _check(key, "key")
        out[f"{prefix}{key}"] = key
    return out


@dataclass(frozen=True, order=True)
class FullKey:
    """A fully qualified key in the hierarchical data space."""

    dataset: str
    table: str
    key: str

    def __post_init__(self):
        _check(self.dataset, "dataset")
        _check(self.table, "table")
        _check(self.key, "key")

    @classmethod
    def of(cls, key: str, table: str = DEFAULT_TABLE,
           dataset: str = DEFAULT_DATASET) -> "FullKey":
        """Convenience constructor with defaulted table/dataset."""
        return cls(dataset=dataset, table=table, key=key)

    def encoded(self) -> str:
        """Wire/storage form — the implicitly extended key of §II.A."""
        return f"{self.dataset}{_SEP}{self.table}{_SEP}{self.key}"

    @classmethod
    def decode(cls, encoded: str) -> "FullKey":
        """Inverse of :meth:`encoded`."""
        dataset, table, key = encoded.split(_SEP, 2)
        return cls(dataset=dataset, table=table, key=key)

    def table_prefix(self) -> str:
        """Prefix matching every key of this (dataset, table)."""
        return f"{self.dataset}{_SEP}{self.table}{_SEP}"

    def dataset_prefix(self) -> str:
        """Prefix matching every key of this dataset."""
        return f"{self.dataset}{_SEP}"

    @staticmethod
    def prefix_for(dataset: str, table: str | None = None) -> str:
        """Prefix for monitoring a Table or a whole Dataset (§IV.C)."""
        if table is None:
            return f"{dataset}{_SEP}"
        return f"{dataset}{_SEP}{table}{_SEP}"

    def __str__(self) -> str:
        return f"{self.dataset}/{self.table}/{self.key}"
