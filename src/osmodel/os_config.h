// Operating-system configuration knobs evaluated by the paper (Table IV).

#ifndef NUMALAB_OSMODEL_OS_CONFIG_H_
#define NUMALAB_OSMODEL_OS_CONFIG_H_

namespace numalab {
namespace osmodel {

/// \brief Thread placement strategy (Section III-B).
enum class Affinity {
  kNone,    ///< OS scheduler free to migrate threads (system default)
  kSparse,  ///< round-robin across NUMA nodes, maximizing bandwidth
  kDense,   ///< pack into as few sockets as possible
};

const char* AffinityName(Affinity a);

}  // namespace osmodel
}  // namespace numalab

#endif  // NUMALAB_OSMODEL_OS_CONFIG_H_
