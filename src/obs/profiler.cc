/**
 * @file
 * Profiler implementation.
 */

#include "profiler.hh"

#include <iomanip>

#include "common/check.hh"

namespace rrm::obs
{

void
Profiler::enter(const char *name)
{
    std::string path =
        stack_.empty() ? std::string(name)
                       : stack_.back() + "." + name;
    stack_.push_back(std::move(path));
}

void
Profiler::leave(std::uint64_t elapsed_ns)
{
    RRM_CHECK(!stack_.empty(), "profiler leave() without enter()");
    Node &node = nodes_[stack_.back()];
    ++node.calls;
    node.totalNs += elapsed_ns;
    stack_.pop_back();
}

void
Profiler::reset()
{
    nodes_.clear();
}

std::uint64_t
Profiler::childNs(const std::string &path) const
{
    // Direct children are keys of the form path + "." + leaf with no
    // further dot; map ordering clusters them right after `path`.
    const std::string prefix = path + ".";
    std::uint64_t ns = 0;
    for (auto it = nodes_.upper_bound(prefix); it != nodes_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        if (it->first.find('.', prefix.size()) == std::string::npos)
            ns += it->second.totalNs;
    }
    return ns;
}

std::uint64_t
Profiler::rootNs() const
{
    // Wall time covered by the outermost recorded scopes: nodes with
    // no recorded ancestor (nested nodes are already counted inside
    // their parents). Checking ancestors rather than dot-free names
    // keeps dotted scope names with absent parents -- e.g. the
    // system's "system.run.*" family -- summing to a real total.
    std::uint64_t ns = 0;
    for (const auto &[path, node] : nodes_) {
        bool nested = false;
        for (std::size_t dot = path.rfind('.');
             dot != std::string::npos;
             dot = path.rfind('.', dot - 1)) {
            if (nodes_.count(path.substr(0, dot)) != 0) {
                nested = true;
                break;
            }
            if (dot == 0)
                break;
        }
        if (!nested)
            ns += node.totalNs;
    }
    return ns;
}

void
Profiler::report(std::ostream &os) const
{
    const std::uint64_t root_ns = rootNs();

    os << std::left << std::setw(44) << "profile node" << std::right
       << std::setw(10) << "calls" << std::setw(14) << "total ms"
       << std::setw(14) << "excl ms" << std::setw(10) << "% total"
       << '\n';
    for (const auto &[path, node] : nodes_) {
        const std::uint64_t excl_ns =
            node.totalNs >= childNs(path) ? node.totalNs - childNs(path)
                                          : 0;
        const double percent =
            root_ns ? 100.0 * static_cast<double>(node.totalNs) /
                          static_cast<double>(root_ns)
                    : 0.0;
        os << std::left << std::setw(44) << ("profile." + path)
           << std::right << std::setw(10) << node.calls
           << std::setw(14) << std::fixed << std::setprecision(3)
           << static_cast<double>(node.totalNs) / 1e6 << std::setw(14)
           << static_cast<double>(excl_ns) / 1e6 << std::setw(9)
           << std::setprecision(1) << percent << '%' << '\n';
    }
    os.unsetf(std::ios::fixed);
}

void
Profiler::writeJson(JsonWriter &json) const
{
    const std::uint64_t root_ns = rootNs();
    json.beginObject();
    for (const auto &[path, node] : nodes_) {
        const std::uint64_t children = childNs(path);
        json.key(path);
        json.beginObject();
        json.field("calls", node.calls);
        json.field("totalNs", node.totalNs);
        json.field("exclusiveNs", node.totalNs >= children
                                      ? node.totalNs - children
                                      : 0);
        json.field("percentOfTotal",
                   root_ns ? 100.0 *
                                 static_cast<double>(node.totalNs) /
                                 static_cast<double>(root_ns)
                           : 0.0);
        json.endObject();
    }
    json.endObject();
}

} // namespace rrm::obs
