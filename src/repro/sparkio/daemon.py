"""The daemon that Spark's Python workers fork from (``get_spark`` sets
``spark.python.daemon.module``).  Run as ``__main__`` on CPython < 3.13,
it makes ``zipimporter.invalidate_caches`` lazy, as 3.13 does, for every
worker (DESIGN.md §6), then runs ``pyspark.daemon``.  Imported, it changes
nothing.  It prints nothing: the daemon reports its socket on stdout."""
import sys
import zipimport


def _lazy_zip_invalidate(self) -> None:
    """CPython 3.13's body: forget the archive's cached directory instead
    of reading it again now."""
    zipimport._zip_directory_cache.pop(self.archive, None)


if __name__ == "__main__":
    if sys.version_info < (3, 13):
        zipimport.zipimporter.invalidate_caches = _lazy_zip_invalidate
    import pyspark.daemon

    pyspark.daemon.manager()
