//! Correctness accounting. A failed operation (an error, a rejection or
//! a wrong row count) is counted and the run continues; the first few
//! failures are kept for the log.

#[derive(Debug, Default, Clone)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

const KEEP_MESSAGES: usize = 8;

impl Checker {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < KEEP_MESSAGES {
            self.messages.push(message);
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(m);
            }
        }
    }

    /// Failed operations over attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
