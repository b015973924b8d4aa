"""Serverless platform substrate.

The paper runs inference inside GPU-backed serverless functions on Alibaba
Cloud Function Compute, fronted by an NGINX load balancer.  This package
simulates that platform: the published billing formula (Eqn. 1), function
instances with bounded concurrency and cold starts, and an auto-scaling
invocation path that rotates round robin over the idle instances, as
NGINX's default policy does.  A fixed-capacity IaaS GPU server is also
provided for the motivation experiment (Fig. 2(b)), which shows why a
statically provisioned server falls behind as cameras are added.
"""

from repro.serverless.cost import AlibabaCostModel, FunctionResources
from repro.serverless.function import FunctionInstance, InvocationRecord
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.iaas import IaaSGPUServer

__all__ = [
    "AlibabaCostModel",
    "FunctionResources",
    "FunctionInstance",
    "InvocationRecord",
    "ServerlessPlatform",
    "IaaSGPUServer",
]
