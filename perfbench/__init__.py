"""Default-knob FTKMeans benchmark (see ``perfbench/run.py``)."""
