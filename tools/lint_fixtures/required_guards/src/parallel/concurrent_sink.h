// Fixture: the shard sink's outbox lost its CEPJOIN_GUARDED_BY. The
// required-guards rule must report the outbox_ deletion.
namespace cepjoin {

class ConcurrentMatchSink {
 public:
  class ShardSink {
   private:
    std::vector<Entry> entries_;
    mutable Mutex outbox_mu_;
    std::vector<Entry> outbox_;
  };
};

}  // namespace cepjoin
