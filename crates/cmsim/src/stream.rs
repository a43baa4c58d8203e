//! Stream sessions: the clients of the CM server.
//!
//! Each active stream consumes one block per service round while playing
//! (the standard round-based CM service model the paper's §1 assumes) and
//! may issue VCR operations — pause, resume, seek — whose
//! unpredictable access patterns are one of the published reasons for
//! random placement (the RIO arguments quoted in §1).

use scaddar_core::ObjectId;

/// Identifier of a client stream session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

/// Playback state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayState {
    /// Consuming one block per round.
    Playing,
    /// Holding position.
    Paused,
    /// Finished (ran past the last block) — to be reaped.
    Done,
}

/// A client session streaming one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Session id.
    pub id: StreamId,
    /// The object being streamed.
    pub object: ObjectId,
    /// Object length in blocks (cached to detect completion).
    pub object_blocks: u64,
    /// Next block to consume.
    pub position: u64,
    /// Playback state.
    pub state: PlayState,
}

impl Stream {
    /// Starts a stream at block 0.
    pub fn new(id: StreamId, object: ObjectId, object_blocks: u64) -> Self {
        Stream {
            id,
            object,
            object_blocks,
            position: 0,
            state: if object_blocks == 0 {
                PlayState::Done
            } else {
                PlayState::Playing
            },
        }
    }

    /// The block this stream needs this round, if any.
    pub fn current_request(&self) -> Option<u64> {
        match self.state {
            PlayState::Playing => Some(self.position),
            PlayState::Paused | PlayState::Done => None,
        }
    }

    /// Advances after a successful block delivery.
    pub fn advance(&mut self) {
        debug_assert_eq!(self.state, PlayState::Playing);
        self.position += 1;
        if self.position >= self.object_blocks {
            self.state = PlayState::Done;
        }
    }

    /// VCR: pause.
    pub fn pause(&mut self) {
        if self.state == PlayState::Playing {
            self.state = PlayState::Paused;
        }
    }

    /// VCR: resume.
    pub fn resume(&mut self) {
        if self.state == PlayState::Paused {
            self.state = PlayState::Playing;
        }
    }

    /// VCR: jump to an absolute block (clamped to the object's end).
    pub fn seek(&mut self, block: u64) {
        if block >= self.object_blocks {
            self.state = PlayState::Done;
        } else {
            self.position = block;
            if self.state == PlayState::Done {
                self.state = PlayState::Playing;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(len: u64) -> Stream {
        Stream::new(StreamId(1), ObjectId(0), len)
    }

    #[test]
    fn plays_to_completion() {
        let mut s = stream(3);
        for expect in 0..3 {
            assert_eq!(s.current_request(), Some(expect));
            s.advance();
        }
        assert_eq!(s.state, PlayState::Done);
        assert_eq!(s.current_request(), None);
    }

    #[test]
    fn zero_length_object_is_immediately_done() {
        let s = stream(0);
        assert_eq!(s.state, PlayState::Done);
    }

    #[test]
    fn vcr_pause_resume_seek() {
        let mut s = stream(100);
        s.pause();
        assert_eq!(s.current_request(), None);
        s.resume();
        assert_eq!(s.current_request(), Some(0));
        s.seek(50);
        assert_eq!(s.current_request(), Some(50));
        s.seek(1000);
        assert_eq!(s.state, PlayState::Done);
        // Seeking back into range revives a done stream.
        s.seek(10);
        assert_eq!(s.state, PlayState::Playing);
    }
}
