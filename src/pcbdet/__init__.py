"""Point-cloud classifier training, point-insertion backdoor attacks, and
unsupervised backdoor detection via trigger reverse-engineering."""

from pcbdet.geometry import (
    Dataset,
    point_to_cloud_distance,
    normalize_cloud,
    generate_shape,
)
from pcbdet.classifier import (
    ClassifierWeights,
    TrainConfig,
    forward_logits,
    predict,
    train,
    save_weights,
    load_weights,
)
from pcbdet.attack import (
    AttackConfig,
    BackdoorPattern,
    embed_pattern,
    choose_center,
    poison_dataset,
    attack_success_rate,
)
from pcbdet.estimation import (
    EstimationParams,
    GroupEstimate,
    estimate_group_location,
    estimate_samplewise_location,
    vote_target_class,
)
from pcbdet.inference import DetectionReport, detect

__all__ = [
    "Dataset",
    "point_to_cloud_distance",
    "normalize_cloud",
    "generate_shape",
    "ClassifierWeights",
    "TrainConfig",
    "forward_logits",
    "predict",
    "train",
    "save_weights",
    "load_weights",
    "AttackConfig",
    "BackdoorPattern",
    "embed_pattern",
    "choose_center",
    "poison_dataset",
    "attack_success_rate",
    "EstimationParams",
    "GroupEstimate",
    "estimate_group_location",
    "estimate_samplewise_location",
    "vote_target_class",
    "DetectionReport",
    "detect",
]
