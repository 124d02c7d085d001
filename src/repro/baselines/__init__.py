"""Baseline systems the paper compares against (§VI): memcached."""

from .memcached import (MemcachedCluster, MemcachedClusterClient,
                        MemcachedServer)
from .ketama import KetamaRing

__all__ = ["KetamaRing",
           "MemcachedCluster", "MemcachedClusterClient", "MemcachedServer"]
