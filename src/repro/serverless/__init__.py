"""Serverless platform substrate.

The paper runs inference inside GPU-backed serverless functions on Alibaba
Cloud Function Compute, fronted by an NGINX load balancer.  This package
simulates that platform: the published billing formula (Eqn. 1), function
instances with bounded concurrency and cold starts, a load balancer, and
an auto-scaling invocation path.  A fixed-capacity IaaS GPU server is also
provided for the motivation experiment (Fig. 2(b)), which shows why a
statically provisioned server falls behind as cameras are added.
"""

from repro.serverless.cost import AlibabaCostModel, FunctionResources
from repro.serverless.function import FunctionInstance, InvocationRecord
from repro.serverless.loadbalancer import (
    BALANCER_POLICIES,
    ConsistentHashBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.iaas import IaaSGPUServer

__all__ = [
    "AlibabaCostModel",
    "FunctionResources",
    "FunctionInstance",
    "InvocationRecord",
    "BALANCER_POLICIES",
    "RoundRobinBalancer",
    "ConsistentHashBalancer",
    "make_balancer",
    "ServerlessPlatform",
    "IaaSGPUServer",
]
