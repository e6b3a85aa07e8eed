"""Experiment orchestration: configs, seeding, statistics, reports, CLI."""

from kinlab.harness.config import ExperimentConfig, load_config
from kinlab.harness.stats import EnsembleStats

__all__ = ["ExperimentConfig", "load_config", "EnsembleStats"]
