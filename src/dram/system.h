/**
 * @file
 * Multi-channel DRAM system: owns `config.channels` independent
 * DramChannels plus one FR-FCFS MemoryController per channel, and
 * routes every request to the owning channel through a module-wide
 * address map (channel-aware MapSchemes interleave consecutive lines
 * or row blocks across channels).
 *
 * This is the substrate the scale work builds on: channels have fully
 * independent timing state (their own banks, ranks, data buses and
 * write queues), so a channel-interleaved workload overlaps DRAM
 * access latencies across channels exactly as real hardware does,
 * while the JEDEC timing checker stays enabled on every channel.
 *
 * The system itself follows the same ownership rule as a single
 * channel: no internal synchronization, one DramSystem per simulation
 * thread (the parallel campaign engine gives each task its own).
 */

#ifndef CODIC_DRAM_SYSTEM_H
#define CODIC_DRAM_SYSTEM_H

#include <memory>
#include <vector>

#include "dram/channel.h"
#include "dram/config.h"
#include "mem/controller.h"
#include "mem/service.h"
#include "trace/recorder.h"

namespace codic {

/** N-channel DRAM module with per-channel controllers. */
class DramSystem final : public MemoryService
{
  public:
    /**
     * @param config Module configuration; config.channels channels
     *        are instantiated (validated, >= 1).
     * @param controller_config Applied to every per-channel
     *        controller (map scheme, queue depths).
     */
    explicit DramSystem(const DramConfig &config,
                        const ControllerConfig &controller_config = {});

    /** Module configuration. */
    const DramConfig &config() const { return config_; }
    const DramConfig &dramConfig() const override { return config_; }

    /** Number of channels. */
    int channelCount() const
    {
        return static_cast<int>(channels_.size());
    }

    /** One channel (timing state, counters, row data states). */
    DramChannel &channel(int i);
    const DramChannel &channel(int i) const;

    /** The channel-local controller handed out by the system. */
    MemoryController &controller(int i);

    /** Channel owning a physical address under the current map. */
    int channelOf(uint64_t phys_addr) const
    {
        return map_.channelOf(phys_addr);
    }

    // MemoryService: route each transaction to the owning channel's
    // controller. System tickets pack (local ticket, channel) into
    // bit fields, so routing a resolution back is stateless. The
    // class is final and the routing inline, so a caller holding a
    // DramSystem pays no virtual call or extra frame per transaction.

    Ticket submit(const MemTransaction &txn) override
    {
        // Decode once: the coordinates route the transaction AND ride
        // into the owning controller's queue entry.
        const Address addr = tapAndDecode(txn);
        const Ticket local = ownerOf(addr).submit(txn, addr);
        return packTicket(addr.channel, local);
    }

    Cycle acceptedAt(Ticket ticket) const override
    {
        return controllers_[ticketChannel(ticket)]->acceptedAt(
            ticketLocal(ticket));
    }

    Cycle completionOf(Ticket ticket) override
    {
        return controllers_[ticketChannel(ticket)]->completionOf(
            ticketLocal(ticket));
    }

    void retire(Ticket ticket) override
    {
        controllers_[ticketChannel(ticket)]->retire(ticketLocal(ticket));
    }

    void onComplete(Ticket ticket, CompletionCallback fn) override;

    /**
     * Route to the owning controller's complete(): the recording tap
     * and the address decode run once, as in submit().
     */
    Cycle complete(const MemTransaction &txn) override
    {
        const Address addr = tapAndDecode(txn);
        return ownerOf(addr).complete(txn, addr);
    }

    /** Advance every channel's scheduler to `now`. */
    size_t poll(Cycle now) override;

    /**
     * Drain every channel - queued reads/row ops and buffered
     * writes; max quiescence cycle across channels.
     */
    Cycle drainAll() override;

    /** Queued transactions summed over every channel. */
    size_t inFlightCount() const override;

    /** Buffered (unissued) writes summed over every channel queue. */
    size_t pendingWriteCount() const;

    /** Module-wide address map (identical in every controller). */
    const AddressMap &map() const override { return map_; }

    /**
     * Register a CODIC variant on every channel (each channel has its
     * own mode registers; the id is identical across channels).
     */
    int registerVariantAll(const SignalSchedule &sched);

    /** Per-channel issue counters, indexed by channel. */
    std::vector<CommandCounts> perChannelCounts() const;

    /**
     * Per-bank ACT/RD/WR/REF counters concatenated across channels,
     * indexed by (channel * ranks + rank) * banks + bank. Cumulative;
     * epoch deltas come from snapshot differencing (EpochStats).
     */
    std::vector<BankCounts> perBankCounts() const;

    /** Aggregate counters across all channels. */
    CommandCounts totalCounts() const;

    /**
     * Per-origin roll-ups merged across every channel's controller,
     * sorted by origin tag (deterministic at any channel count and
     * submission interleaving). See OriginCounts.
     */
    std::vector<OriginCounts> perOriginCounts() const;

    /** Largest issue cycle across all channels (campaign end time). */
    Cycle lastIssueCycle() const;

    /** Set every row of every channel to a given state. */
    void fillAllRows(RowDataState s);

    /** Count rows in a state across the whole module. */
    int64_t countRowsInState(RowDataState s) const;

  private:
    /**
     * Offer `txn` to the TraceRecorder tap and decode its address:
     * the one entry step of submit() and complete().
     */
    Address tapAndDecode(const MemTransaction &txn) const
    {
        if (TraceRecorder::active())
            TraceRecorder::tap(txn);
        return map_.decode(txn.addr);
    }

    /** The controller of a decoded address's channel. */
    MemoryController &ownerOf(const Address &addr)
    {
        return *controllers_[static_cast<size_t>(addr.channel)];
    }

    // System tickets pack (channel, channel-local ticket) as
    // (local << channel_bits_) | channel, so routing a ticket back
    // needs no table and no divide. A local ticket is never 0, so
    // neither is a system ticket: kInvalidTicket is never produced.

    Ticket packTicket(int channel, Ticket local) const
    {
        return (local << channel_bits_) | static_cast<Ticket>(channel);
    }

    /** Index of a system ticket's channel in controllers_. */
    size_t ticketChannel(Ticket ticket) const
    {
        CODIC_ASSERT(ticket != kInvalidTicket);
        const size_t channel = static_cast<size_t>(
            ticket & ((Ticket{1} << channel_bits_) - 1));
        CODIC_ASSERT(channel < controllers_.size());
        return channel;
    }

    Ticket ticketLocal(Ticket ticket) const
    {
        return ticket >> channel_bits_;
    }

    DramConfig config_;
    AddressMap map_;
    /** Low ticket bits holding the channel: ceil(log2(channels)). */
    int channel_bits_ = 0;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    std::vector<std::unique_ptr<MemoryController>> controllers_;
};

} // namespace codic

#endif // CODIC_DRAM_SYSTEM_H
