"""Baseline systems the paper compares against (§VI): memcached."""

from .memcached import (MemcachedCluster, MemcachedClusterClient,
                        MemcachedServer)

__all__ = ["MemcachedCluster", "MemcachedClusterClient", "MemcachedServer"]
