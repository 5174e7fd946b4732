"""Recommender benchmark harness: classic baselines, data-free cold-start
trainers, MAE evaluation, and Zipf/diversity analysis."""

from .core import (ContextSample, DatasetError, EvalEntry, EvalReport,
                   FactorModel, PowerMatModel, Rating, RatingsDataset,
                   TrainConfig, TrainingError)

__all__ = [
    "ContextSample", "DatasetError", "EvalEntry", "EvalReport", "FactorModel",
    "PowerMatModel", "Rating", "RatingsDataset", "TrainConfig",
    "TrainingError",
]

__version__ = "0.1.0"
