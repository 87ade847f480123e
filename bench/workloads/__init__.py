"""The four benchmark workloads, by name."""

from workloads.anchor_coloring import AnchorColoring
from workloads.axiom_scan import AxiomScan
from workloads.cli_certify import CliCertify
from workloads.list_search import ListSearch

WORKLOADS = {
    cls.name: cls for cls in (AnchorColoring, AxiomScan, ListSearch, CliCertify)
}
