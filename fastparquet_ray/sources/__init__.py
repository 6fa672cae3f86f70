from .fprs import FprsDatasource

__all__ = ["FprsDatasource"]
