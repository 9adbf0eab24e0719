"""Network meta-analysis of two-arm studies: FE, additive RE and multiplicative
ME models, heterogeneity decomposition, and model comparison by AIC."""

from .analysis import *
from .dataset import *
from .heterogeneity import *
from .models import *
from .numerics import *
from .report import *

__version__ = "0.1.0"
