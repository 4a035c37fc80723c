"""Fixed-time integral sliding mode control with optional GP drift learning.

The supported interface is the ``fxtsmc`` command line (``fxtsmc.cli``). The
submodules are internal and may change; importing the package loads none of
them.
"""

__version__ = "0.1.0"
