"""An empty layer.

The oracle sizes no degree slice of a tensor power, and the elements of a
tensor power, with the diagonal map, are in :mod:`milnortc.exprs`.  The
module stays registered because ``perfbench/tracer.py`` looks up
``milnortc.tensorpower`` among the package's layers; it goes when the
tracer's layer list drops it.
"""
