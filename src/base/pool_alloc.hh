/**
 * @file
 * Size-classed slab pool and a std::allocator adapter over it.
 *
 * The tick loop creates and destroys one record per dynamic instruction
 * (isa/instr_pool.hh) and one hash node per outstanding cache miss. Both
 * are fixed-size records with enormous churn and a small live population
 * — the textbook free-list case. The SlabPool carves blocks out of
 * multi-block slabs and recycles freed blocks through intrusive LIFO free
 * lists (one per size class), so after a short warm-up the global
 * allocator is never entered again.
 *
 * Lifetime: PoolAlloc holds the pool by shared_ptr, so a container's
 * nodes and the slabs behind them die together no matter which member is
 * destroyed first. The InstrPool owns its SlabPool outright instead: no
 * instruction may outlive it (its destructor checks).
 *
 * Not thread-safe by design: each pool belongs to one simulator, and
 * simulators never share mutable state (sim/campaign.hh).
 */

#ifndef SMTAVF_BASE_POOL_ALLOC_HH
#define SMTAVF_BASE_POOL_ALLOC_HH

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace smtavf
{

/** Recycling block allocator with per-size-class free lists. */
class SlabPool
{
  public:
    /** @param blocks_per_slab blocks carved from each slab allocation. */
    explicit SlabPool(std::size_t blocks_per_slab = 256)
        : blocksPerSlab_(blocks_per_slab ? blocks_per_slab : 1)
    {
    }

    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    ~SlabPool()
    {
        for (const Slab &s : slabs_)
            ::operator delete(s.mem, std::align_val_t{s.align});
    }

    /** Allocate one block of @p bytes with @p align. */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        SizeClass &sc = classFor(bytes, align);
        if (!sc.freeHead)
            addSlab(sc);
        void *block = sc.freeHead;
        sc.freeHead = *static_cast<void **>(block);
        ++liveBlocks_;
        return block;
    }

    /** Return a block allocated with the same @p bytes / @p align. */
    void
    deallocate(void *block, std::size_t bytes, std::size_t align)
    {
        SizeClass &sc = classFor(bytes, align);
        *static_cast<void **>(block) = sc.freeHead;
        sc.freeHead = block;
        --liveBlocks_;
    }

    /** Blocks currently handed out (tests: leak detection). */
    std::size_t liveBlocks() const { return liveBlocks_; }

    /** Slabs requested from the global allocator (tests: reuse proof). */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    struct SizeClass
    {
        std::size_t stride;
        std::size_t align;
        void *freeHead = nullptr;
    };

    struct Slab
    {
        void *mem;
        std::size_t align;
    };

    SizeClass &
    classFor(std::size_t bytes, std::size_t align)
    {
        if (align < alignof(std::max_align_t))
            align = alignof(std::max_align_t);
        if (bytes < sizeof(void *))
            bytes = sizeof(void *);
        std::size_t stride = (bytes + align - 1) / align * align;
        for (SizeClass &sc : classes_)
            if (sc.stride == stride && sc.align == align)
                return sc;
        classes_.push_back({stride, align, nullptr});
        return classes_.back();
    }

    void
    addSlab(SizeClass &sc)
    {
        void *mem = ::operator new(sc.stride * blocksPerSlab_,
                                   std::align_val_t{sc.align});
        slabs_.push_back({mem, sc.align});
        auto *base = static_cast<unsigned char *>(mem);
        // Thread the fresh blocks onto the free list back to front so
        // they are handed out in address order.
        for (std::size_t i = blocksPerSlab_; i > 0; --i) {
            void *block = base + (i - 1) * sc.stride;
            *static_cast<void **>(block) = sc.freeHead;
            sc.freeHead = block;
        }
    }

    std::size_t blocksPerSlab_;
    std::size_t liveBlocks_ = 0;
    std::vector<SizeClass> classes_;
    std::vector<Slab> slabs_;
};

/**
 * std::allocator adapter over a shared SlabPool. Single-element
 * allocations (a container's node type, a shared_ptr control block) come
 * from the pool; array allocations (e.g. a hash table's bucket array)
 * fall through to the global allocator, which only happens on container
 * growth.
 */
template <typename T>
class PoolAlloc
{
  public:
    using value_type = T;

    explicit PoolAlloc(std::shared_ptr<SlabPool> pool)
        : pool_(std::move(pool))
    {
    }

    template <typename U>
    PoolAlloc(const PoolAlloc<U> &other) : pool_(other.pool())
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n == 1)
            return static_cast<T *>(pool_->allocate(sizeof(T), alignof(T)));
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t{alignof(T)}));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (n == 1)
            pool_->deallocate(p, sizeof(T), alignof(T));
        else
            ::operator delete(p, std::align_val_t{alignof(T)});
    }

    const std::shared_ptr<SlabPool> &pool() const { return pool_; }

    template <typename U>
    bool
    operator==(const PoolAlloc<U> &other) const
    {
        return pool_ == other.pool();
    }

    template <typename U>
    bool
    operator!=(const PoolAlloc<U> &other) const
    {
        return !(*this == other);
    }

  private:
    std::shared_ptr<SlabPool> pool_;
};

} // namespace smtavf

#endif // SMTAVF_BASE_POOL_ALLOC_HH
