/**
 * @file
 * Ring buffer in "reserved DRAM" carrying trace records from the
 * tracer hardware to consuming software (the prototype writes HMTT
 * records to DRAM 1 via PCIe + DMA, §V). Bounded: when software lags,
 * the hardware drops records and counts them.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"

namespace hopp::trace
{

/**
 * Fixed-capacity single-producer single-consumer ring. The capacity is
 * the modeled one (when it is reached, pushes drop); the host storage
 * only follows the occupancy high-water mark, doubling when a push
 * finds it full, so a ring that software drains promptly stays as
 * small as its peak occupancy however large its modeled capacity.
 */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity) : capacity_(capacity)
    {
        hopp_assert(capacity > 0, "ring needs capacity");
    }

    /** @return false (and counts a drop) when the ring is full. */
    bool
    push(const T &item)
    {
        if (size_ == capacity_) {
            ++dropped_;
            return false;
        }
        if (size_ == buf_.size())
            grow();
        buf_[wrap(head_ + size_)] = item;
        ++size_;
        ++pushed_;
        return true;
    }

    /** Pop the oldest record. */
    std::optional<T>
    pop()
    {
        if (size_ == 0)
            return std::nullopt;
        T item = buf_[head_];
        head_ = wrap(head_ + 1);
        --size_;
        return item;
    }

    /** Records currently queued. */
    std::size_t size() const { return size_; }

    /** True when nothing is queued. */
    bool empty() const { return size_ == 0; }

    /** Capacity in records. */
    std::size_t capacity() const { return capacity_; }

    /** Records dropped because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Records ever accepted. */
    std::uint64_t pushed() const { return pushed_; }

    /** Zero the lifetime counters (queued records are untouched). */
    void
    resetStats()
    {
        dropped_ = 0;
        pushed_ = 0;
    }

  private:
    static constexpr std::size_t minStorage = 16;

    /** @p i reduced into the storage; @p i < 2 * storage. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    /** Double the storage (up to the capacity), oldest record first. */
    void
    grow()
    {
        std::vector<T> bigger;
        // Geometric growth: the storage reaches the occupancy
        // high-water mark in O(log capacity) reallocations, then
        // never reallocates. hopp-analyze: allow(hotpath-alloc)
        bigger.resize(
            std::min(capacity_, std::max(minStorage, 2 * buf_.size())));
        for (std::size_t k = 0; k < size_; ++k)
            bigger[k] = buf_[wrap(head_ + k)];
        buf_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t pushed_ = 0;
};

} // namespace hopp::trace

