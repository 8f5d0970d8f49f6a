"""Deterministic desk-scale simulator for disaster-resilient RAN recovery:
discrete-event kernel, radio channel with RIS support, phase-configuration
algorithms, cell-free MIMO AP clustering, NTN recovery planning and a
two-tier controller."""

__version__ = "0.1.0"
