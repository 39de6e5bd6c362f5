"""The name of the matcher kernel, as benchmark records report it.

There is one kernel, the pure-Python ``_bagmatch_py``.
"""


def kernel_name() -> str:
    return "pure"
