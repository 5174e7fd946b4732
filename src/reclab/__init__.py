"""Recommender benchmark harness: classic baselines, data-free cold-start
trainers, MAE evaluation, and Zipf/diversity analysis."""

from .core import DatasetError, FactorModel, RatingsDataset, TrainConfig, TrainingError

__all__ = [
    "DatasetError", "FactorModel", "RatingsDataset", "TrainConfig", "TrainingError",
]

__version__ = "0.1.0"
