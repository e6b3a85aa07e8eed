"""Experiment orchestration: configs, seeding, statistics, reports, CLI."""
