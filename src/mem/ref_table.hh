/**
 * @file
 * A direct-mapped table of memoized cache or TLB refs.
 *
 * Cache::Ref and Tlb::Ref remember the line or slot of one earlier
 * access. A hot caller that touches several lines in turn (the fetch
 * stream across a domain switch, the PCU's table walks) keeps one ref
 * per line or page number instead of a single ref that the next
 * access to a different line would overwrite. Every ref revalidates
 * on use, so two addresses that alias to one entry cost a set scan,
 * never a wrong outcome: the table size is a host-speed choice only.
 */

#ifndef ISAGRID_MEM_REF_TABLE_HH_
#define ISAGRID_MEM_REF_TABLE_HH_

#include <array>
#include <bit>
#include <cstddef>

#include "sim/types.hh"

namespace isagrid {

/**
 * @tparam Ref      Cache::Ref or Tlb::Ref
 * @tparam Entries  table size (a power of two)
 * @tparam Shift    log2 of the granule an entry covers (line or page)
 */
template <typename Ref, std::size_t Entries, unsigned Shift>
class RefTable
{
    static_assert(std::has_single_bit(Entries),
                  "ref table size must be a power of two");

  public:
    /** The ref for the granule holding @p addr. */
    Ref &
    operator[](Addr addr)
    {
        return refs_[(addr >> Shift) & (Entries - 1)];
    }

    /** Forget every ref (their target model was replaced). */
    void clear() { refs_.fill(Ref{}); }

  private:
    std::array<Ref, Entries> refs_{};
};

} // namespace isagrid

#endif // ISAGRID_MEM_REF_TABLE_HH_
