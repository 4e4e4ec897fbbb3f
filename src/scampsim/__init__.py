"""Desk-scale simulator of in-sensor binary CNN inference on a SIMD
pixel-processor array, with a compiler to plane instructions, a timing
model and a PWM servo control loop."""

from .geometry import PlaneGeometry
from .model import BnnModel, argmax, reference_infer
from .planes import ArrayState, NoiseModel
from .program import CostModel, Instruction, PpaProgram, TimingReport

__all__ = [
    "PlaneGeometry", "BnnModel", "argmax", "reference_infer",
    "ArrayState", "NoiseModel",
    "CostModel", "Instruction", "PpaProgram", "TimingReport",
]

__version__ = "0.1.0"
