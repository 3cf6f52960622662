from .models import (
    DEFAULT_HYPER,
    FAMILIES,
    ClassifyError,
    TrainedModel,
    boosted_proba,
    lr_loss_grad,
    predict,
    predict_proba,
    train,
)
from .cv import (
    CVReport,
    accuracy_grid,
    cross_validate,
    make_folds,
    write_cv_reports,
    write_grid_csv,
)
from .trees import Tree, grow_gini_tree, grow_newton_tree

__all__ = [
    "DEFAULT_HYPER",
    "FAMILIES",
    "ClassifyError",
    "TrainedModel",
    "boosted_proba",
    "lr_loss_grad",
    "predict",
    "predict_proba",
    "train",
    "CVReport",
    "accuracy_grid",
    "cross_validate",
    "make_folds",
    "write_cv_reports",
    "write_grid_csv",
    "Tree",
    "grow_gini_tree",
    "grow_newton_tree",
]
