"""Deterministic fiber-to-the-neighborhood network planning.

Designs least-cost access and backbone fiber networks over settlement and
road data, prices them (total cost of ownership), assesses life-cycle
greenhouse-gas emissions with their social carbon cost, aggregates per
population-density decile, and quantifies parameter sensitivity with a
reproducible Monte Carlo.
"""

__version__ = "0.1.0"
