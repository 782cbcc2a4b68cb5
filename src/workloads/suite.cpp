#include "workloads/suite.hpp"

#include "util/logging.hpp"

namespace bpnsp {

std::vector<Workload>
allWorkloads()
{
    std::vector<Workload> all = specSuite();
    std::vector<Workload> lcf = lcfSuite();
    all.insert(all.end(), std::make_move_iterator(lcf.begin()),
               std::make_move_iterator(lcf.end()));
    // Frontend-stress workloads ride last: the fig_* benches iterate
    // specSuite()/lcfSuite() directly and are unperturbed by these.
    std::vector<Workload> fe = frontendSuite();
    all.insert(all.end(), std::make_move_iterator(fe.begin()),
               std::make_move_iterator(fe.end()));
    return all;
}

Workload
findWorkload(const std::string &name)
{
    for (auto &w : allWorkloads()) {
        if (w.name == name)
            return w;
    }
    std::string known;
    for (const auto &w : allWorkloads())
        known += " " + w.name;
    fatal("unknown workload: ", name, "; known:", known);
}

} // namespace bpnsp
