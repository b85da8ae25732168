"""Fresh-interpreter reference for setup_s: start Python, import numpy and
the standard-library modules uwbcal uses (nothing of uwbcal itself), then
print the monotonic clock. Frozen like probe.py."""

import argparse  # noqa: F401
import collections  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import importlib.resources  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import pathlib  # noqa: F401
import time
import typing  # noqa: F401

import numpy  # noqa: F401

print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
