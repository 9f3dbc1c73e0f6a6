from . import launch
launch()
