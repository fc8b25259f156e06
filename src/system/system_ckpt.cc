/**
 * @file
 * System checkpoint orchestration (DESIGN.md section 16).
 *
 * The simulator never serializes its event queue. Instead a
 * checkpoint is taken only at a *quiescent point*: cores paused, the
 * queue stepped until every transient obligation (outstanding fills,
 * in-flight channel requests, staged writebacks, read-retry backoffs)
 * has drained, so the only events left are the re-armable periodic
 * tasks (RRM refresh/decay, sampler), the retention sweep, and the
 * cores' swallowed advance events.
 * Restore re-creates those from config at their saved next-fire
 * ticks; the event-queue section carries just the clock, the next
 * sequence number, and the executed-event count (the uniform-shift
 * argument on EventQueue::restoreClock).
 *
 * Quiescing perturbs event sequence numbers (a paused core's advance
 * event is swallowed and re-created), so byte-identity holds between
 * two checkpoint-ENABLED runs — the interrupted-and-resumed run and
 * the undisturbed reference — which quiesce at the same absolute
 * epoch boundaries. Default-off runs never quiesce and keep the
 * historical goldens.
 */

#include "system.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <regex>
#include <sstream>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace rrm::sys
{

namespace
{

// Section ids, in file order.
constexpr std::uint32_t secQueue = ckpt::sectionId('Q', 'U', 'E', 'U');
constexpr std::uint32_t secSystem = ckpt::sectionId('S', 'Y', 'S', '0');
constexpr std::uint32_t secCores = ckpt::sectionId('C', 'O', 'R', 'E');
constexpr std::uint32_t secCaches = ckpt::sectionId('C', 'A', 'C', 'H');
constexpr std::uint32_t secController =
    ckpt::sectionId('C', 'T', 'R', 'L');
constexpr std::uint32_t secPolicy = ckpt::sectionId('P', 'O', 'L', 'I');
constexpr std::uint32_t secFault = ckpt::sectionId('F', 'L', 'T', '0');
constexpr std::uint32_t secStats = ckpt::sectionId('S', 'T', 'A', 'T');
constexpr std::uint32_t secSampler = ckpt::sectionId('S', 'M', 'P', 'L');
constexpr std::uint32_t secTelemetry =
    ckpt::sectionId('T', 'E', 'L', 'E');
constexpr std::uint32_t secProfiler =
    ckpt::sectionId('P', 'R', 'O', 'F');

/**
 * Deterministic cap on the quiesce drain. The drain normally needs a
 * few thousand steps (in-flight requests complete within microseconds
 * of simulated time); the cap only exists so a pathological feedback
 * loop skips its checkpoint instead of spinning forever, and it must
 * be a constant so the reference and resumed runs skip identically.
 */
constexpr std::uint64_t drainStepCap = 4'000'000;

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

bool
System::ckptEnabled() const
{
    return config_.checkpointEveryEpochs > 0 &&
           !config_.checkpointDir.empty();
}

std::uint64_t
System::configFingerprint() const
{
    // The run-record config JSON already covers everything that can
    // change results; append the few behaviour-determining knobs it
    // deliberately omits (they alter event scheduling, not results,
    // which is exactly what a checkpoint must agree on).
    std::ostringstream os;
    {
        obs::JsonWriter json(os);
        writeConfigJson(json);
    }
    os << "|ckptEvery=" << config_.checkpointEveryEpochs
       << "|epochTicks=" << ckptEpochTicks_
       << "|sampler=" << (sampler_ ? sampler_->interval() : 0)
       << "|regionProf=" << (profiler_ ? 1 : 0);
    const std::string s = os.str();

    std::uint64_t h = 1469598103934665603ull; // FNV-1a 64
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

bool
System::ckptQuiescent() const
{
    for (const auto &core : cores_) {
        if (!core->quiescent())
            return false;
    }
    if (outstandingFills_ != 0 || pendingWritebackEvents_ != 0)
        return false;
    if (!writePath_->quiescent())
        return false;
    return controller_->quiescent();
}

bool
System::drainToQuiescence()
{
    std::uint64_t steps = 0;
    while (!ckptQuiescent()) {
        if (steps >= drainStepCap || !queue_.step())
            return false;
        ++steps;
    }
    return true;
}

void
System::saveCkptSections(ckpt::CkptWriter &file) const
{
    RRM_CHECK(ckptQuiescent(), "checkpoint outside a quiescent point");

    {
        ckpt::ChunkWriter w;
        w.u64(queue_.now());
        w.u64(queue_.nextSeq());
        w.u64(queue_.eventsExecuted());
        file.section(secQueue, w);
    }
    {
        ckpt::ChunkWriter w;
        w.u64(refreshSeq_);
        w.b(measuring_);
        w.u64(measureStart_);
        w.f64(meas_.readEnergy);
        w.f64(meas_.demandWriteEnergy);
        w.f64(meas_.refreshEnergy);
        w.u64(meas_.memReads);
        w.u64(meas_.fastWrites);
        w.u64(meas_.slowWrites);
        w.u64(meas_.fastRefreshes);
        w.u64(meas_.slowRefreshes);
        w.u32(static_cast<std::uint32_t>(meas_.tenants.size()));
        for (const TenantCounters &tc : meas_.tenants) {
            w.u64(tc.memReads);
            w.u64(tc.fastWrites);
            w.u64(tc.slowWrites);
            w.u64(tc.fastRefreshes);
            w.u64(tc.slowRefreshes);
        }
        for (const std::uint64_t n : tenantRefreshOutstanding_)
            w.u64(n);
        file.section(secSystem, w);
    }
    {
        ckpt::ChunkWriter w;
        w.u32(static_cast<std::uint32_t>(cores_.size()));
        for (const auto &core : cores_)
            core->saveCkpt(w);
        file.section(secCores, w);
    }
    {
        ckpt::ChunkWriter w;
        hierarchy_->saveCkpt(w);
        file.section(secCaches, w);
    }
    {
        ckpt::ChunkWriter w;
        controller_->saveCkpt(w);
        file.section(secController, w);
    }
    {
        ckpt::ChunkWriter w;
        policy_->saveCkpt(w);
        file.section(secPolicy, w);
    }
    if (retention_) {
        ckpt::ChunkWriter w;
        retention_->saveCkpt(w);
        file.section(secFault, w);
    }
    {
        ckpt::ChunkWriter w;
        statRoot_.saveCkpt(w);
        file.section(secStats, w);
    }
    if (sampler_) {
        ckpt::ChunkWriter w;
        sampler_->saveCkpt(w);
        file.section(secSampler, w);
    }
    if (telemetry_) {
        ckpt::ChunkWriter w;
        telemetry_->saveCkpt(w);
        file.section(secTelemetry, w);
    }
    if (profiler_) {
        ckpt::ChunkWriter w;
        profiler_->saveCkpt(w);
        file.section(secProfiler, w);
    }
}

std::string
System::ckptCompatError(const ckpt::CkptReader &reader) const
{
    const ckpt::CkptHeader &h = reader.header();
    if (h.configFingerprint != configFingerprint()) {
        return "config fingerprint mismatch (file " +
               hex64(h.configFingerprint) + ", this run " +
               hex64(configFingerprint()) + ")";
    }

    std::vector<std::uint32_t> required = {
        secQueue,      secSystem, secCores, secCaches,
        secController, secPolicy, secStats};
    if (retention_)
        required.push_back(secFault);
    if (sampler_)
        required.push_back(secSampler);
    if (profiler_)
        required.push_back(secProfiler);
    for (const std::uint32_t id : required) {
        if (!reader.hasSection(id)) {
            return "missing required section " + ckpt::sectionName(id);
        }
    }
    return "";
}

void
System::restoreCkptSections(const ckpt::CkptReader &reader)
{
    // Everything that can make this file unusable is checked before
    // the first mutation, so a caller iterating over candidate files
    // can still fall back to an older one after a throw from here.
    // (Payload CRCs were already verified by the CkptReader.)
    const std::string why = ckptCompatError(reader);
    if (!why.empty())
        throw ckpt::CkptError(reader.name() + ": " + why);

    // Clock first: restoreClock requires the empty pre-start queue,
    // and every re-armed task below schedules against the restored
    // now/sequence counter.
    {
        auto r = reader.section(secQueue);
        const Tick now = r.u64();
        const std::uint64_t next_seq = r.u64();
        const std::uint64_t executed = r.u64();
        r.expectDone();
        queue_.restoreClock(now, next_seq, executed);
    }
    {
        auto r = reader.section(secCores);
        const std::uint32_t n = r.u32();
        if (n != cores_.size()) {
            throw ckpt::CkptError(
                reader.name() + ": core count mismatch (file has " +
                std::to_string(n) + ", this system has " +
                std::to_string(cores_.size()) + ")");
        }
        for (auto &core : cores_)
            core->restoreCkpt(r); // leaves the core paused
        r.expectDone();
    }
    {
        auto r = reader.section(secCaches);
        hierarchy_->restoreCkpt(r);
        r.expectDone();
    }
    {
        auto r = reader.section(secController);
        controller_->restoreCkpt(r);
        r.expectDone();
    }
    {
        auto r = reader.section(secPolicy);
        policy_->restoreCkpt(r); // re-arms monitor refresh/decay
        r.expectDone();
    }
    if (retention_) {
        auto r = reader.section(secFault);
        retention_->restoreCkpt(r); // re-arms the deadline sweep
        r.expectDone();
    }
    {
        auto r = reader.section(secStats);
        statRoot_.restoreCkpt(r);
        r.expectDone();
    }
    if (sampler_) {
        auto r = reader.section(secSampler);
        sampler_->restoreCkpt(r); // re-arms the sample task
        r.expectDone();
    }
    // Telemetry does not influence event scheduling, so a file
    // without the section (saved with telemetry off) is still usable;
    // its counters simply restart from the resume point.
    if (telemetry_ && reader.hasSection(secTelemetry)) {
        auto r = reader.section(secTelemetry);
        telemetry_->restoreCkpt(r);
        r.expectDone();
    }
    if (profiler_) {
        auto r = reader.section(secProfiler);
        profiler_->restoreCkpt(r);
        r.expectDone();
    }
    {
        auto r = reader.section(secSystem);
        refreshSeq_ = r.u64();
        measuring_ = r.b();
        measureStart_ = r.u64();
        meas_.readEnergy = r.f64();
        meas_.demandWriteEnergy = r.f64();
        meas_.refreshEnergy = r.f64();
        meas_.memReads = r.u64();
        meas_.fastWrites = r.u64();
        meas_.slowWrites = r.u64();
        meas_.fastRefreshes = r.u64();
        meas_.slowRefreshes = r.u64();
        const std::uint32_t num_tenants = r.u32();
        if (num_tenants != meas_.tenants.size()) {
            throw ckpt::CkptError(
                "checkpoint has " + std::to_string(num_tenants) +
                " tenants but this config has " +
                std::to_string(meas_.tenants.size()));
        }
        for (TenantCounters &tc : meas_.tenants) {
            tc.memReads = r.u64();
            tc.fastWrites = r.u64();
            tc.slowWrites = r.u64();
            tc.fastRefreshes = r.u64();
            tc.slowRefreshes = r.u64();
        }
        for (std::uint64_t &n : tenantRefreshOutstanding_)
            n = r.u64();
        r.expectDone();
    }
}

void
System::publishCheckpoint(std::uint64_t epoch_index,
                          const std::string &path) const
{
    ckpt::CkptHeader header;
    header.configFingerprint = configFingerprint();
    header.epochIndex = epoch_index;
    header.tick = queue_.now();
    ckpt::CkptWriter file(header);
    saveCkptSections(file);
    file.writeFile(path);
}

std::string
System::checkpointPath(std::uint64_t epoch_index) const
{
    // Zero-padded epoch: plain lexical order is publication order.
    char name[32];
    std::snprintf(name, sizeof name, "ckpt-%08llu.rckpt",
                  static_cast<unsigned long long>(epoch_index));
    return config_.checkpointDir + "/" + name;
}

void
System::quiesceCheckpoint(std::uint64_t epoch_index)
{
    for (auto &core : cores_)
        core->pause();
    if (!drainToQuiescence()) {
        // Deterministic: the reference run skips this epoch too.
        warn_once("ckpt.draincap",
                  "event-queue drain hit its step cap at tick ",
                  queue_.now(), "; skipping the epoch-", epoch_index,
                  " checkpoint");
    } else if (epoch_index % config_.checkpointEveryEpochs == 0) {
        try {
            publishCheckpoint(epoch_index, checkpointPath(epoch_index));
        } catch (const FatalError &e) {
            // An unwritable checkpoint must not kill a healthy run.
            warn("failed to publish the epoch-", epoch_index,
                 " checkpoint: ", e.what(), "; continuing without it");
        }
    }
    for (auto &core : cores_)
        core->unpause();
}

void
System::runCkptSlice(Tick until)
{
    if (!ckptEnabled() || ckptEpochTicks_ == 0) {
        runSlice(until);
        return;
    }
    for (;;) {
        // A drain can overshoot one or more boundaries (it must run
        // in-flight requests to completion); both the reference and
        // the resumed run overshoot identically, and a resume
        // re-derives the next boundary from the restored clock here.
        while (nextEpochIndex_ * ckptEpochTicks_ <= queue_.now())
            ++nextEpochIndex_;
        const Tick boundary = nextEpochIndex_ * ckptEpochTicks_;
        if (boundary >= until) {
            if (queue_.now() < until)
                runSlice(until);
            return;
        }
        runSlice(boundary);
        quiesceCheckpoint(nextEpochIndex_);
        ++nextEpochIndex_;
    }
}

bool
System::tryResume()
{
    namespace fs = std::filesystem;
    // Epoch files only (checkpointPath() names): zero-padded, so
    // descending lexical order is newest first.
    static const std::regex epochFile(R"(ckpt-\d{8}\.rckpt)");
    std::vector<std::string> files;
    try {
        for (const auto &entry :
             fs::directory_iterator(config_.checkpointDir)) {
            if (std::regex_match(entry.path().filename().string(),
                                 epochFile))
                files.push_back(entry.path().string());
        }
    } catch (const fs::filesystem_error &e) {
        warn("cannot scan checkpoint directory ", config_.checkpointDir,
             ": ", e.what(), "; starting cold");
        return false;
    }
    if (files.empty())
        return false;
    std::sort(files.rbegin(), files.rend());

    // Restore the newest file that opens (the CkptReader constructor
    // checks every CRC) and fits this config. Corrupt, truncated,
    // version-mismatched or incompatible files are warned about once
    // and skipped for the next older one, so only one file is held in
    // memory at a time.
    for (const std::string &path : files) {
        std::unique_ptr<ckpt::CkptReader> reader;
        try {
            reader = std::make_unique<ckpt::CkptReader>(path);
            const std::string why = ckptCompatError(*reader);
            if (!why.empty())
                throw ckpt::CkptError(why);
        } catch (const ckpt::CkptError &e) {
            warn_once("ckpt.reject." + path, "ignoring checkpoint ",
                      path, ": ", e.what());
            continue;
        }
        // Errors past this point left the system partially restored
        // and must propagate: the data was CRC-intact and compatible,
        // so a section-level mismatch is a bug, not recoverable
        // corruption.
        restoreCkptSections(*reader);
        resumedFromEpoch_ = reader->header().epochIndex;
        return true;
    }
    warn("no usable checkpoint in ", config_.checkpointDir,
         "; starting cold");
    return false;
}

} // namespace rrm::sys
